% @begin pipeline @in obs @out model_fit
% @begin Fit @in obs @out model_fit @out residuals
model_fit = fit_curve(obs);
residuals = obs - model_fit;
% @end Fit
% @end pipeline
